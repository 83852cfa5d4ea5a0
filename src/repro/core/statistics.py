"""System statistics collection and dissemination (§5.2).

Three statistics feed the likelihood model:

* **message latencies** (§5.2.1): clients ping one storage node per
  data center at a fixed interval, measure the round trip (spikes and
  all), and record it in windowed histograms keyed by DC pair;
* **transaction sizes** (§5.2.2): every started transaction registers
  its write-set size;
* **record access rates** (§5.2.3): measured on the storage nodes
  (see :class:`repro.storage.AccessRateTracker`) and piggybacked on
  read replies.

The paper disseminates client histograms by piggybacking them on RPCs
to the storage nodes, which aggregate and echo the merged view back.
Here all agents publish into one shared :class:`StatisticsService` hub
per cluster — the state every party converges to — while the *probe
traffic itself* stays real: the RTT samples come from actual simulated
ping round trips, so measurement lag, spikes, and windowed aging all
behave as deployed.  An :class:`OracleLatencySource` bypasses
measurement entirely for model-accuracy ablations.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.histograms import Pmf, WindowedHistogram
from repro.core.likelihood import CommitLikelihoodModel, LatencyMatrix
from repro.net.topology import Topology
from repro.sim import Environment, RandomStreams


Pair = Tuple[int, int]


class ModelSource:
    """Keeps one likelihood model current from a statistics source.

    The one model-maintenance path shared by the cluster hub
    (:class:`StatisticsService`) and the per-DC dissemination agents
    (:class:`~repro.core.dissemination.ClientStatsAgent`).  A subclass
    says where each directed pair's RTT statistics come from through
    :meth:`_pair_stamp` — a version stamp that moves whenever the
    pair's PMF would — and :meth:`_stamp_pmf`; this class builds the
    latency matrix and, on every build after the first, diffs the stamps
    recorded at the last build to feed only the moved pairs to
    :meth:`~repro.core.likelihood.CommitLikelihoodModel.refresh`.
    """

    cluster: Any
    bin_ms: float
    n_bins: int
    # The model built last time and every directed pair's stamp at that
    # build (both replaced, never mutated, so class defaults are safe).
    _model: Optional[CommitLikelihoodModel] = None
    _model_signature: Dict[Pair, Optional[Hashable]] = {}

    def _pair_stamp(self, a: int, b: int) -> Optional[Hashable]:
        """Version stamp of pair (a, b)'s statistics; None: no samples."""
        raise NotImplementedError

    def _stamp_pmf(self, stamp: Hashable) -> Pmf:
        """The RTT PMF of the statistics a stamp names."""
        raise NotImplementedError

    def size_distribution(self) -> Dict[int, float]:
        raise NotImplementedError

    def _pairs(self) -> List[Pair]:
        n = len(self.cluster.topology)
        return [(a, b) for a in range(n) for b in range(n) if a != b]

    def _pair_pmf(self, pair: Pair, stamp: Optional[Hashable],
                  fallback: Optional[Topology]) -> Pmf:
        if stamp is not None:
            return self._stamp_pmf(stamp)
        if fallback is not None:
            return Pmf.point(fallback.mean_rtt(*pair), self.bin_ms,
                             self.n_bins)
        raise ValueError(f"no RTT samples for DC pair {pair} "
                         "and no fallback topology")

    def latency_matrix(self,
                       fallback: Optional[Topology] = None) -> LatencyMatrix:
        """The measured RTT matrix.

        Pairs without samples fall back to the topology's mean RTT as a
        point mass (when ``fallback`` is given) or raise.
        """
        rtt_pmfs = {pair: self._pair_pmf(pair, self._pair_stamp(*pair),
                                         fallback)
                    for pair in self._pairs()}
        return LatencyMatrix(len(self.cluster.topology), rtt_pmfs,
                             self.bin_ms, self.n_bins)

    def _maintain_model(self, leader_distribution: Optional[Sequence[float]],
                        client_distribution: Optional[Sequence[float]],
                        fallback: Optional[Topology],
                        quorum: Optional[int],
                        collision_probability: float,
                        ) -> CommitLikelihoodModel:
        """Patch the last model in place, or build a fresh one.

        The first call builds cold with the full reference rebuild, in
        the cluster's protocol mode.  Every later call patches that
        model via
        :meth:`~repro.core.likelihood.CommitLikelihoodModel.refresh`
        with the pairs whose stamps moved since the last build; only
        the nodes they dirty are rebuilt.  A topology, quorum or
        collision-probability change takes a cold build again.
        """
        if leader_distribution is None:
            leader_distribution = self.cluster.mastership.leader_distribution()
        signature = {pair: self._pair_stamp(*pair) for pair in self._pairs()}
        model = self._model
        if (model is not None
                and model.latency.n == len(self.cluster.topology)
                and (quorum is None or quorum == model.quorum)
                and collision_probability == model.collision_probability):
            model.refresh(
                rtt_updates={
                    pair: self._pair_pmf(pair, stamp, fallback)
                    for pair, stamp in sorted(signature.items())
                    if self._model_signature.get(pair) != stamp},
                size_distribution=self.size_distribution(),
                leader_distribution=leader_distribution,
                client_distribution=client_distribution)
        else:
            model = CommitLikelihoodModel(
                self.latency_matrix(fallback=fallback),
                leader_distribution,
                client_distribution=client_distribution,
                size_distribution=self.size_distribution(),
                quorum=quorum, mode=self.cluster.mode,
                collision_probability=collision_probability)
            model.precompute()
            self._model = model
        self._model_signature = signature
        return model


class OracleLatencySource:
    """Builds a :class:`LatencyMatrix` straight from the topology.

    Samples each link's latency model offline — the ground truth a
    perfectly converged statistics service would measure.  Used for
    fast experiment setup and for isolating likelihood-model error
    from measurement error.
    """

    def __init__(self, topology: Topology, streams: RandomStreams,
                 samples: int = 4000, bin_ms: float = 2.0,
                 n_bins: int = 1024):
        self.topology = topology
        self.samples = int(samples)
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self._rng = streams.get("oracle-latency")

    def latency_matrix(self) -> LatencyMatrix:
        n = len(self.topology)
        rtt_pmfs: Dict[Tuple[int, int], Pmf] = {}
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                forward = self.topology.latency(a, b)
                backward = self.topology.latency(b, a)
                samples = [
                    forward.sample(self._rng) + backward.sample(self._rng)
                    for _ in range(self.samples)
                ]
                rtt_pmfs[(a, b)] = Pmf.from_samples(
                    samples, self.bin_ms, self.n_bins)
        return LatencyMatrix(n, rtt_pmfs, self.bin_ms, self.n_bins)


class StatisticsService(ModelSource):
    """The cluster-wide statistics hub plus client-side probe agents."""

    def __init__(self, env: Environment, cluster, streams: RandomStreams,
                 bin_ms: float = 2.0, n_bins: int = 1024,
                 generations: int = 6, rotate_ms: float = 60_000.0):
        # Per-service so agent names (and the RNG streams derived from
        # them) are reproducible across runs within one host process.
        self._agent_ids = itertools.count(1)
        self.env = env
        self.cluster = cluster
        self.streams = streams
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self._rtt: Dict[Tuple[int, int], WindowedHistogram] = {}
        self._sizes: Counter = Counter()
        self._pings_sent = 0
        for nodes in cluster.nodes.values():
            for node in nodes:
                node.stats_provider = self._on_ping
        if rotate_ms > 0:
            env.process(self._rotator(rotate_ms))

        self._generations = generations

    # -- hub state -----------------------------------------------------------

    def _histogram(self, pair: Tuple[int, int]) -> WindowedHistogram:
        hist = self._rtt.get(pair)
        if hist is None:
            hist = WindowedHistogram(self.bin_ms, self.n_bins,
                                     self._generations)
            self._rtt[pair] = hist
        return hist

    def record_rtt(self, src_dc: int, dst_dc: int, rtt_ms: float) -> None:
        self._histogram((src_dc, dst_dc)).add(rtt_ms)

    def record_transaction_size(self, size: int) -> None:
        if size < 1:
            raise ValueError("transaction size must be >= 1")
        self._sizes[size] += 1

    def _on_ping(self, payload, src: str):
        """Storage-node side of a probe: acknowledge immediately."""
        return "pong"

    def _rotator(self, rotate_ms: float):
        while True:
            yield self.env.timeout(rotate_ms)
            for hist in self._rtt.values():
                hist.rotate()

    # -- probe agents ------------------------------------------------------------

    def start_agent(self, datacenter: int,
                    ping_interval_ms: float = 1000.0) -> None:
        """Launch a probing client in ``datacenter``.

        The agent pings one storage node in every data center each
        interval and records the measured round trips.  Intervals are
        jittered so the fleet does not probe in lockstep.
        """
        from repro.net.rpc import RpcEndpoint  # local import: avoid cycle

        name = f"stats/{next(self._agent_ids)}"
        endpoint = RpcEndpoint(self.env, self.cluster.transport, name,
                               datacenter)
        rng = self.streams.get(f"stats-agent-{name}")
        self.env.process(
            self._probe_loop(endpoint, datacenter, ping_interval_ms, rng))

    def _probe_loop(self, endpoint, datacenter: int, interval_ms: float,
                    rng):
        yield self.env.timeout(rng.uniform(0, interval_ms))
        n = len(self.cluster.topology)
        while True:
            for target_dc in range(n):
                target = self.cluster.node_address(target_dc, 0)
                sent = self.env.now
                self._pings_sent += 1
                self.env.process(
                    self._measure(endpoint, target, datacenter,
                                  target_dc, sent))
            yield self.env.timeout(interval_ms * rng.uniform(0.9, 1.1))

    def _measure(self, endpoint, target: str, src_dc: int, dst_dc: int,
                 sent: float):
        try:
            yield endpoint.call(target, "ping", None, timeout_ms=10_000.0)
        except Exception:
            return  # lost probe: no sample
        self.record_rtt(src_dc, dst_dc, self.env.now - sent)

    # -- model construction ---------------------------------------------------------

    def coverage(self) -> int:
        """Number of DC pairs with at least one RTT sample."""
        return sum(1 for hist in self._rtt.values()
                   if hist.total_count() > 0)

    def size_distribution(self) -> Dict[int, float]:
        if not self._sizes:
            return {1: 1.0}
        total = sum(self._sizes.values())
        return {size: count / total
                for size, count in sorted(self._sizes.items())}

    # -- incremental-rebuild bookkeeping --------------------------------------

    def _pair_stamp(self, a: int, b: int) -> Optional[Hashable]:
        """The histogram backing directed pair (a, b) and its version.

        None marks a pair still on the fallback point mass; a pair
        moves between builds iff its stamp moved (histogram versions
        are bumped only by aggregate-count changes).
        """
        key = (a, b) if (a, b) in self._rtt else (b, a)
        hist = self._rtt.get(key)
        if hist is not None and hist.total_count() > 0:
            return (key, hist.version)
        return None

    def _stamp_pmf(self, stamp: Hashable) -> Pmf:
        key, _version = stamp
        return self._rtt[key].pmf()

    def build_model(self,
                    leader_distribution: Optional[List[float]] = None,
                    client_distribution: Optional[List[float]] = None,
                    fallback: Optional[Topology] = None,
                    quorum: Optional[int] = None,
                    collision_probability: float = 0.0,
                    ) -> CommitLikelihoodModel:
        """Assemble or patch the likelihood model from current stats.

        See :meth:`ModelSource._maintain_model`; ``collision_probability``
        feeds the fast-ballot recovery branch of a ``mode="fast"``
        cluster's model.
        """
        return self._maintain_model(leader_distribution, client_distribution,
                                    fallback, quorum, collision_probability)
