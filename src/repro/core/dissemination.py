"""Distributed statistics dissemination (the full §5.2.1 mechanism).

The paper's pipeline, implemented end to end:

1. every client keeps **windowed local histograms** of the round trips
   it measures to each data center;
2. on each probe RPC it **piggybacks its current counts** to the
   storage node it pings;
3. storage nodes **aggregate across clients** (latest counts per
   client, so cumulative re-pushes never double count) and return the
   merged matrix with the response;
4. the client **adopts the aggregate** as its view of the pairs it
   cannot measure itself, keeping freshness for its own vantage point.

Compared with :class:`repro.core.statistics.StatisticsService` (a
shared hub — the converged state), this module models the convergence
*process*: a freshly started client's matrix is empty, fills in from
aggregates within a few probe rounds, and ages with the windows.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.histograms import Pmf, WindowedHistogram
from repro.core.likelihood import CommitLikelihoodModel
from repro.core.statistics import ModelSource, Pair
from repro.net.rpc import RpcEndpoint
from repro.net.topology import Topology
from repro.sim import Environment, RandomStreams


class NodeStatsStore:
    """A storage node's aggregate of client-pushed statistics.

    Stores the latest cumulative (windowed) counts per client and
    aggregates by summation; clients push whole snapshots, so
    replacing the previous push keeps every sample counted exactly
    once.
    """

    def __init__(self, n_bins: int):
        self.n_bins = int(n_bins)
        self._by_client: Dict[str, Dict[Pair, np.ndarray]] = {}
        self._sizes_by_client: Dict[str, Dict[int, int]] = {}

    def absorb(self, client_id: str, rtt_counts: Dict[Pair, np.ndarray],
               size_counts: Optional[Dict[int, int]] = None) -> None:
        checked: Dict[Pair, np.ndarray] = {}
        for pair, counts in rtt_counts.items():
            counts = np.asarray(counts, dtype=float)
            if counts.shape != (self.n_bins,):
                raise ValueError(f"bad histogram shape for pair {pair}")
            checked[pair] = counts
        self._by_client[client_id] = checked
        if size_counts is not None:
            self._sizes_by_client[client_id] = dict(size_counts)

    def aggregate(self) -> Dict[Pair, np.ndarray]:
        total: Dict[Pair, np.ndarray] = {}
        for client_counts in self._by_client.values():
            for pair, counts in client_counts.items():
                if pair in total:
                    total[pair] = total[pair] + counts
                else:
                    total[pair] = counts.copy()
        return total

    def aggregate_sizes(self) -> Dict[int, int]:
        total: Dict[int, int] = {}
        for sizes in self._sizes_by_client.values():
            for size, count in sizes.items():
                total[size] = total.get(size, 0) + count
        return total

    @property
    def n_clients(self) -> int:
        return len(self._by_client)


class ClientStatsAgent(ModelSource):
    """One client's measuring, pushing, and merging loop.

    ``agent_id`` must be unique per transport; the service hands out
    sequential run-local ids so runs reproduce byte-identically (a
    process-global counter would leak across runs).  The agent keeps
    its likelihood model on the hub's incremental path
    (:class:`~repro.core.statistics.ModelSource`).
    """

    def __init__(self, env: Environment, cluster, datacenter: int,
                 streams: RandomStreams, bin_ms: float = 2.0,
                 n_bins: int = 1024, generations: int = 6,
                 ping_interval_ms: float = 1000.0,
                 rotate_ms: float = 60_000.0,
                 agent_id: Optional[str] = None):
        self.env = env
        self.cluster = cluster
        self.datacenter = datacenter
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self.client_id = (agent_id if agent_id is not None
                          else f"statsagent/dc{datacenter}")
        self.endpoint = RpcEndpoint(env, cluster.transport, self.client_id,
                                    datacenter)
        self._rng = streams.get(f"dissemination-{self.client_id}")
        self.ping_interval_ms = float(ping_interval_ms)
        self._generations = int(generations)
        #: This client's own measurements (windowed, aging).
        self.own: Dict[Pair, WindowedHistogram] = {}
        #: Latest aggregate received from a storage node.
        self.global_view: Dict[Pair, np.ndarray] = {}
        self.global_sizes: Dict[int, int] = {}
        #: Replies whose aggregate was adopted (stamps global-view pairs).
        self.adoptions = 0
        #: Locally observed transaction sizes (cumulative).
        self.own_sizes: Dict[int, int] = {}
        self.pushes = 0
        self.env.process(self._probe_loop())
        if rotate_ms > 0:
            self.env.process(self._rotator(rotate_ms))

    # -- local measurement ---------------------------------------------------

    def _own_histogram(self, pair: Pair) -> WindowedHistogram:
        hist = self.own.get(pair)
        if hist is None:
            hist = WindowedHistogram(self.bin_ms, self.n_bins,
                                     self._generations)
            self.own[pair] = hist
        return hist

    def observe_rtt(self, dst_dc: int, rtt_ms: float) -> None:
        self._own_histogram((self.datacenter, dst_dc)).add(rtt_ms)

    def observe_transaction_size(self, size: int) -> None:
        if size < 1:
            raise ValueError("transaction size must be >= 1")
        self.own_sizes[size] = self.own_sizes.get(size, 0) + 1

    def _snapshot_counts(self) -> Dict[Pair, np.ndarray]:
        return {pair: hist.counts() for pair, hist in self.own.items()}

    # -- probe / push / merge loop -----------------------------------------------

    def _probe_loop(self):
        yield self.env.timeout(self._rng.uniform(0, self.ping_interval_ms))
        n = len(self.cluster.topology)
        while True:
            for target_dc in range(n):
                target = self.cluster.node_address(target_dc, 0)
                self.env.process(self._probe_once(target, target_dc))
            yield self.env.timeout(
                self.ping_interval_ms * self._rng.uniform(0.9, 1.1))

    def _probe_once(self, target: str, target_dc: int):
        payload = {
            "client": self.client_id,
            "rtt": self._snapshot_counts(),
            "sizes": dict(self.own_sizes),
        }
        sent = self.env.now
        self.pushes += 1
        try:
            reply = yield self.endpoint.call(target, "stats_push", payload,
                                             timeout_ms=10_000.0)
        except Exception:
            return  # lost probe: no sample, no merge
        self.observe_rtt(target_dc, self.env.now - sent)
        if reply:
            self.global_view = reply.get("rtt", {})
            self.global_sizes = reply.get("sizes", {})
            self.adoptions += 1

    def _rotator(self, rotate_ms: float):
        while True:
            yield self.env.timeout(rotate_ms)
            for hist in self.own.values():
                hist.rotate()

    # -- view assembly ----------------------------------------------------------------

    def coverage(self) -> int:
        """DC pairs this client currently has data for (own or global)."""
        pairs = set(self.global_view)
        pairs.update(pair for pair, hist in self.own.items()
                     if hist.total_count() > 0)
        return len(pairs)

    def _pair_stamp(self, a: int, b: int) -> Optional[Hashable]:
        """Where this client's statistics for pair (a, b) come from.

        Own fresh measurements win over the global aggregate for the
        pairs this client can observe directly; everything else comes
        from the aggregate (stamped by adoption), then from the
        fallback topology means.
        """
        for pair in ((a, b), (b, a)):
            own = self.own.get(pair)
            if own is not None and own.total_count() > 0:
                return ("own", pair, own.version)
            counts = self.global_view.get(pair)
            if counts is not None and counts.sum() > 0:
                return ("global", pair, self.adoptions)
        return None

    def _stamp_pmf(self, stamp: Hashable) -> Pmf:
        source, pair, _version = stamp
        if source == "own":
            return self.own[pair].pmf()
        return Pmf.from_counts(self.global_view[pair], self.bin_ms)

    def size_distribution(self) -> Dict[int, float]:
        counts: Dict[int, int] = dict(self.global_sizes)
        for size, count in self.own_sizes.items():
            counts[size] = counts.get(size, 0) + count
        total = sum(counts.values())
        if total == 0:
            return {1: 1.0}
        return {size: count / total for size, count in sorted(counts.items())}

    def build_model(self, leader_distribution: Optional[List[float]] = None,
                    fallback: Optional[Topology] = None,
                    collision_probability: float = 0.0,
                    ) -> CommitLikelihoodModel:
        """This client's likelihood model from its current view.

        The first call builds cold; later calls patch that model (see
        :meth:`~repro.core.statistics.ModelSource._maintain_model`).
        """
        return self._maintain_model(leader_distribution, None, fallback,
                                    None, collision_probability)


class DisseminationService:
    """Wires the per-node stores and the client agents together."""

    def __init__(self, env: Environment, cluster, streams: RandomStreams,
                 bin_ms: float = 2.0, n_bins: int = 1024,
                 generations: int = 6):
        self.env = env
        self.cluster = cluster
        self.streams = streams
        self.bin_ms = float(bin_ms)
        self.n_bins = int(n_bins)
        self.generations = int(generations)
        self.stores: Dict[str, NodeStatsStore] = {}
        self.agents: List[ClientStatsAgent] = []
        for nodes in cluster.nodes.values():
            for node in nodes:
                store = NodeStatsStore(self.n_bins)
                self.stores[node.address] = store
                node.stats_provider = self._handler_for(store)

    def _handler_for(self, store: NodeStatsStore):
        def handler(payload, src: str):
            if not isinstance(payload, dict):
                return None  # a plain ping: ack without stats exchange
            store.absorb(payload["client"], payload.get("rtt", {}),
                         payload.get("sizes"))
            return {"rtt": store.aggregate(),
                    "sizes": store.aggregate_sizes()}
        return handler

    def start_agent(self, datacenter: int,
                    ping_interval_ms: float = 1000.0,
                    rotate_ms: float = 60_000.0) -> ClientStatsAgent:
        agent = ClientStatsAgent(
            self.env, self.cluster, datacenter, self.streams,
            bin_ms=self.bin_ms, n_bins=self.n_bins,
            generations=self.generations,
            ping_interval_ms=ping_interval_ms, rotate_ms=rotate_ms,
            agent_id=f"statsagent/{len(self.agents) + 1}")
        self.agents.append(agent)
        return agent
