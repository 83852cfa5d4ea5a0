"""The experiment runner reproducing the paper's §6 setups."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baseline import TraditionalClient
from repro.check.faults import FaultSchedule
from repro.core import (
    AdmissionPolicy,
    CommitLikelihoodModel,
    OracleLatencySource,
    PlanetSession,
    StatisticsService,
)
from repro.mdcc import Cluster
from repro.net import Topology, ec2_five_dc, uniform_topology
from repro.obs import MetricsCollector, TxRecord
from repro.sim import Environment, RandomStreams
from repro.storage.record import WriteOp
from repro.workload import (
    AggregateLoad,
    BuyTransactionFactory,
    HotspotAccess,
    ModulatedArrivals,
    OpenSystemLoad,
    PoissonArrivals,
    RateModulation,
    UniformAccess,
    ZipfianAccess,
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a mixed workload: its own rate, mix, and shape.

    Each tenant gets its own open-system load generator on a dedicated
    random stream (``load-<experiment>-<tenant>``), so adding or
    re-rating one tenant never perturbs another's draw sequence.
    """

    name: str
    rate_tps: float
    read_fraction: float = 0.0
    modulation: Optional[RateModulation] = None

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError(f"tenant {self.name!r} rate must be positive")


class _MultiLoad:
    """Fans one load lifecycle out to per-tenant generators."""

    def __init__(self, loads: Sequence[OpenSystemLoad]):
        self.loads = list(loads)

    def start(self, duration_ms: Optional[float] = None) -> None:
        for load in self.loads:
            load.start(duration_ms=duration_ms)

    def stop(self) -> None:
        for load in self.loads:
            load.stop()

    @property
    def issued(self) -> int:
        return sum(load.issued for load in self.loads)

    @property
    def reads_issued(self) -> int:
        return sum(load.reads_issued for load in self.loads)


@dataclass
class ExperimentConfig:
    """One experimental setup (defaults mirror §6.1/§6.2).

    ``system`` selects the programming model: ``"planet"`` or
    ``"traditional"``.  ``spec_threshold`` enables speculative commits,
    ``admission`` installs an admission-control policy, and
    ``use_on_accept`` defines the onAccept stage (§6.3 enables it,
    §6.4+ does not).
    """

    name: str = "experiment"
    seed: int = 0
    system: str = "planet"
    #: Protocol mode for the whole cluster: ``"classic"`` (default) or
    #: ``"fast"`` (MDCC fast ballots — clients propose straight to the
    #: acceptors under ⌈3N/4⌉ quorums, collisions recover classically).
    mode: str = "classic"
    #: Collision probability fed to the fast-mode likelihood model's
    #: recovery branch (ignored under classic mode).
    fast_collision_probability: float = 0.0
    #: Bound on one fast round before it falls back to classic; also
    #: the storage nodes' classic round timeout when set.
    round_timeout_ms: Optional[float] = None
    # topology
    topology: str = "ec2"          # "ec2" | "uniform"
    n_datacenters: int = 5         # for the uniform topology
    uniform_one_way_ms: float = 40.0
    sigma: float = 0.12
    spike_prob: float = 0.0005
    partitions_per_dc: int = 2
    mastership: object = "hash"
    #: Per-message processing time at storage nodes.  Positive values
    #: model finite server capacity (the paper's m1.large machines):
    #: overload then shows up as queueing delay and thrashing, which
    #: admission control exists to prevent.
    storage_service_ms: float = 0.0
    #: Per-message-kind costs, e.g. {"phase2a": 4.0} for the disk-bound
    #: option logging of the paper's m1.large servers.
    storage_service_overrides: Optional[Dict[str, float]] = None
    # data & workload
    n_items: int = 20_000
    initial_stock: int = 1_000_000
    hotspot_size: Optional[int] = None
    hot_prob: float = 0.9
    #: Zipf exponent: set for power-law access instead of hotspot/uniform.
    zipf_s: Optional[float] = None
    rate_tps: float = 200.0
    min_items: int = 1
    max_items: int = 4
    think_time_ms: float = 0.0
    #: Fraction of arrivals that are read-only browse transactions.
    read_fraction: float = 0.0
    #: Load engine: ``"per-client"`` (the default per-arrival generator
    #: process) or ``"aggregate-vectorized"`` (batches drawn with
    #: vectorized numpy draws — same distributions, the million-client
    #: scale path).
    load_engine: str = "per-client"
    #: Simulated user population for client attribution in the
    #: aggregate engine (0 = untracked).
    load_population: int = 0
    #: Time-varying rate shape applied to the arrival process (see
    #: :mod:`repro.workload.modulation`); None keeps the constant-rate
    #: paper workload bit-for-bit.
    modulation: Optional[RateModulation] = None
    #: Mixed-tenant workload: one open-system generator per tenant on
    #: its own stream, replacing the single ``rate_tps`` load.
    #: Requires the per-client engine.
    tenants: Optional[Sequence[TenantSpec]] = None
    # environment script
    #: Declarative fault schedule (:class:`repro.check.FaultSchedule`)
    #: applied to the cluster when the run starts — the scenario
    #: catalogue's degraded-environment arm.
    faults: Optional[FaultSchedule] = None
    # programming model
    timeout_ms: float = 5_000.0
    use_on_accept: bool = False
    spec_threshold: Optional[float] = None
    admission: Optional[AdmissionPolicy] = None
    # statistics & model
    stats_mode: str = "oracle"   # "oracle" | "measured" | "distributed"
    oracle_samples: int = 2000
    ping_interval_ms: float = 1000.0
    bin_ms: float = 2.0
    n_bins: int = 1024
    need_model: Optional[bool] = None  # default: infer from spec/admission
    #: Rebuild measured/distributed models every interval (the paper
    #: recomputes as the statistics windows age); None = build once.
    model_refresh_ms: Optional[float] = None
    # windows (virtual time)
    warmup_ms: float = 30_000.0
    duration_ms: float = 60_000.0
    drain_ms: float = 15_000.0
    #: Install a :class:`repro.obs.ObsSession` on the kernel: metric
    #: registry + span tracing, dumped into ``ExperimentResult.obs``.
    observe: bool = False

    def wants_model(self) -> bool:
        if self.need_model is not None:
            return self.need_model
        return self.spec_threshold is not None or self.admission is not None


@dataclass
class ExperimentResult:
    """Config + collected metrics + a flat summary dict for reports."""

    config: ExperimentConfig
    metrics: MetricsCollector
    initial_likelihoods: List[float] = field(default_factory=list)
    read_latencies_ms: List[float] = field(default_factory=list)
    #: Observability artifacts (``{"version", "meta", "metrics",
    #: "spans"}``) when the config set ``observe=True``; else None.
    obs: Optional[Dict[str, object]] = None

    def summary(self) -> Dict[str, float]:
        metrics = self.metrics
        return {
            "issued": metrics.n_issued,
            "committed": metrics.n_committed,
            "aborted": metrics.n_aborted,
            "rejected": metrics.n_rejected,
            "commit_tps": metrics.commit_tps(),
            "abort_tps": metrics.abort_tps(),
            "abort_rate": metrics.abort_rate(),
            "hot_commit_tps": metrics.commit_tps(hot=True),
            "cold_commit_tps": metrics.commit_tps(hot=False),
            "mean_response_ms": metrics.mean_response_ms(),
            "p50_response_ms": metrics.percentile_response_ms(0.50),
            "p95_response_ms": metrics.percentile_response_ms(0.95),
            "spec_fraction": metrics.spec_fraction(),
            "spec_incorrect_fraction": metrics.spec_incorrect_fraction(),
        }


class _PlanetIssuer:
    """Issues PLANET buy transactions round-robin across DC sessions."""

    def __init__(self, experiment: "Experiment",
                 sessions: Sequence[PlanetSession]):
        self.experiment = experiment
        self.sessions = list(sessions)
        self._next = 0
        self.pending: List[tuple] = []  # (record, planet_tx)
        self.read_latencies_ms: List[float] = []

    def issue_read(self, keys: Sequence[str]) -> None:
        session = self.sessions[self._next % len(self.sessions)]
        self._next += 1
        start = session.env.now
        event = session.read(keys)
        event.callbacks.append(
            lambda _event: self.read_latencies_ms.append(
                session.env.now - start))

    def issue(self, writes: Sequence[WriteOp], touches_hotspot: bool) -> None:
        session = self.sessions[self._next % len(self.sessions)]
        self._next += 1
        config = self.experiment.config
        tx = session.transaction(writes, timeout_ms=config.timeout_ms,
                                 think_time_ms=config.think_time_ms)
        tx.on_failure(_noop)
        if config.use_on_accept:
            tx.on_accept(_noop)
        tx.on_complete(_noop, threshold=config.spec_threshold)
        tx.finally_callback(_noop)
        planet_tx = tx.execute()
        record = TxRecord(system="planet", issued_ms=planet_tx.start_ms,
                          timeout_ms=config.timeout_ms, hot=touches_hotspot,
                          size=len(writes))
        self.pending.append((record, planet_tx))

    def finalize(self, collector: MetricsCollector,
                 likelihoods: List[float]) -> None:
        for record, planet_tx in self.pending:
            record.admitted = planet_tx.admitted is not False
            record.accepted_ms = (
                planet_tx.handle.accepted_ms
                if planet_tx.handle is not None else None)
            record.decided_ms = planet_tx.decided_ms
            record.committed = planet_tx.committed
            record.spec_ms = planet_tx.spec_fired_ms
            record.spec_incorrect = planet_tx.spec_incorrect
            record.stage_fired = planet_tx.stage_fired
            record.stage_fired_ms = planet_tx.stage_fired_ms
            collector.add(record)
            if planet_tx.initial_likelihood is not None:
                likelihoods.append(planet_tx.initial_likelihood)


class _TraditionalIssuer:
    """Issues fire-and-hope transactions round-robin across DC clients."""

    def __init__(self, experiment: "Experiment",
                 clients: Sequence[TraditionalClient]):
        self.experiment = experiment
        self.clients = list(clients)
        self._next = 0
        self.pending: List[tuple] = []
        self.read_latencies_ms: List[float] = []

    def issue_read(self, keys: Sequence[str]) -> None:
        client = self.clients[self._next % len(self.clients)]
        self._next += 1
        start = client.env.now
        event = client.tm.read_only(keys)
        event.callbacks.append(
            lambda _event: self.read_latencies_ms.append(
                client.env.now - start))

    def issue(self, writes: Sequence[WriteOp], touches_hotspot: bool) -> None:
        client = self.clients[self._next % len(self.clients)]
        self._next += 1
        config = self.experiment.config
        txn = client.execute(writes, timeout_ms=config.timeout_ms,
                             think_time_ms=config.think_time_ms)
        record = TxRecord(system="traditional", issued_ms=txn.start_ms,
                          timeout_ms=config.timeout_ms, hot=touches_hotspot,
                          size=len(writes))
        self.pending.append((record, txn))

    def finalize(self, collector: MetricsCollector,
                 likelihoods: List[float]) -> None:
        for record, txn in self.pending:
            record.accepted_ms = txn.handle.accepted_ms
            record.decided_ms = txn.true_decided_ms
            record.committed = txn.true_committed
            if txn.app_outcome is not None:
                record.app_outcome = txn.app_outcome.value
            collector.add(record)


def _noop(info) -> None:
    """Stage blocks of the benchmark transactions do no app work."""


class Experiment:
    """Builds and runs one configured experiment in virtual time."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.env = Environment()
        self.obs_session = None
        if config.observe:
            from repro.obs import ObsSession
            self.obs_session = ObsSession()
            self.obs_session.install(self.env)
        self.streams = RandomStreams(seed=config.seed)
        self.topology = self._build_topology()
        self.cluster = Cluster(
            self.env, self.topology, self.streams,
            partitions_per_dc=config.partitions_per_dc,
            mastership=config.mastership,
            storage_service_ms=config.storage_service_ms,
            storage_service_overrides=config.storage_service_overrides,
            round_timeout_ms=config.round_timeout_ms,
            mode=config.mode)
        # The Items table is uniform, so rows materialize lazily on
        # first touch — 200 000-item tables cost nothing up front.
        self.cluster.set_default_stock(config.initial_stock)
        self.pattern = self._build_pattern()
        self.factory = BuyTransactionFactory(
            self.pattern, min_items=config.min_items,
            max_items=config.max_items)
        self.statistics = StatisticsService(
            self.env, self.cluster, self.streams,
            bin_ms=config.bin_ms, n_bins=config.n_bins)
        self.model: Optional[CommitLikelihoodModel] = None
        self.model_refreshes = 0
        self.sessions: List[PlanetSession] = []
        self._issuer = self._build_issuer()

    # -- assembly ------------------------------------------------------------

    def _build_topology(self) -> Topology:
        config = self.config
        if config.topology == "ec2":
            return ec2_five_dc(sigma=config.sigma,
                               spike_prob=config.spike_prob)
        if config.topology == "uniform":
            return uniform_topology(
                config.n_datacenters, one_way_ms=config.uniform_one_way_ms,
                sigma=config.sigma, spike_prob=config.spike_prob)
        raise ValueError(f"unknown topology {config.topology!r}")

    def _build_pattern(self):
        config = self.config
        if config.zipf_s is not None:
            if config.hotspot_size is not None:
                raise ValueError("choose either zipf_s or hotspot_size")
            return ZipfianAccess(config.n_items, s=config.zipf_s)
        if config.hotspot_size is None:
            return UniformAccess(config.n_items)
        return HotspotAccess(config.n_items, config.hotspot_size,
                             hot_prob=config.hot_prob)

    def _build_issuer(self):
        config = self.config
        n_dc = len(self.topology)
        if config.system == "planet":
            self.sessions = [
                PlanetSession(self.cluster, f"planet-{dc}", dc,
                              admission=config.admission,
                              statistics=self.statistics)
                for dc in range(n_dc)
            ]
            return _PlanetIssuer(self, self.sessions)
        if config.system == "traditional":
            clients = [
                TraditionalClient(self.cluster, f"trad-{dc}", dc)
                for dc in range(n_dc)
            ]
            return _TraditionalIssuer(self, clients)
        raise ValueError(f"unknown system {config.system!r}")

    def _prepare_oracle_model(self) -> None:
        """Build the oracle model before the run starts.

        The latency matrix comes straight from the topology and the
        size distribution from the configured workload (uniform over
        [min_items, max_items]), so the model is valid from t=0 —
        matching a deployed system whose statistics have converged
        before the measured window, and avoiding a warmup period in
        which admission control is blind and floods the hotspot.
        """
        config = self.config
        matrix = OracleLatencySource(
            self.topology, self.streams, samples=config.oracle_samples,
            bin_ms=config.bin_ms, n_bins=config.n_bins).latency_matrix()
        sizes = range(config.min_items, config.max_items + 1)
        self.model = CommitLikelihoodModel(
            matrix, self.cluster.mastership.leader_distribution(),
            size_distribution={size: 1.0 for size in sizes},
            mode=config.mode,
            collision_probability=config.fast_collision_probability)
        self.model.precompute()
        for session in self.sessions:
            session.model = self.model

    def _prepare_measured_model(self) -> None:
        """Build the model from the statistics gathered during warmup.

        The first call is a full reference build; refresh-loop calls
        patch it in place.
        """
        self.model = self.statistics.build_model(
            fallback=self.topology,
            collision_probability=self.config.fast_collision_probability)
        for session in self.sessions:
            session.model = self.model

    def _prepare_distributed_models(self) -> None:
        """Per-DC models from each data center's dissemination agent.

        Like the measured model: a full reference build first, then
        in-place refreshes.
        """
        for session in self.sessions:
            agent = self._agents[session.datacenter]
            session.model = agent.build_model(
                fallback=self.topology,
                collision_probability=self.config.fast_collision_probability)
        self.model = self.sessions[0].model if self.sessions else None

    def _refresh_loop(self, rebuild, interval_ms: float):
        """Periodically rebuild models from the aging statistics."""
        while True:
            yield self.env.timeout(interval_ms)
            rebuild()
            self.model_refreshes += 1

    def _arrivals(self, rate_tps: float,
                  modulation: Optional[RateModulation]):
        """Poisson arrivals, wrapped when a rate shape is configured."""
        arrivals = PoissonArrivals(rate_tps)
        if modulation is None:
            return arrivals
        return ModulatedArrivals(arrivals, modulation)

    def _build_load(self):
        """The configured load engine (see ``load_engine``)."""
        config = self.config
        if config.load_population and config.load_engine == "per-client":
            raise ValueError(
                "load_population requires the aggregate-vectorized engine")
        if config.tenants is not None:
            if config.load_engine != "per-client":
                raise ValueError(
                    "tenant workloads require the per-client engine")
            names = [tenant.name for tenant in config.tenants]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate tenant names in {names}")
            return _MultiLoad([
                OpenSystemLoad(
                    self.env, self.factory, self._issuer,
                    tenant.rate_tps, self.streams,
                    name=f"{config.name}-{tenant.name}",
                    arrivals=self._arrivals(tenant.rate_tps,
                                            tenant.modulation),
                    read_fraction=tenant.read_fraction)
                for tenant in config.tenants
            ])
        arrivals = self._arrivals(config.rate_tps, config.modulation)
        if config.load_engine == "per-client":
            return OpenSystemLoad(self.env, self.factory, self._issuer,
                                  config.rate_tps, self.streams,
                                  name=config.name,
                                  arrivals=arrivals,
                                  read_fraction=config.read_fraction)
        if config.load_engine == "aggregate-vectorized":
            return AggregateLoad(self.env, self.factory, self._issuer,
                                 config.rate_tps, self.streams,
                                 name=config.name,
                                 arrivals=arrivals,
                                 read_fraction=config.read_fraction,
                                 population=config.load_population)
        raise ValueError(f"unknown load engine {config.load_engine!r}")

    # -- execution -----------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Warmup, measure, drain; returns the collected metrics."""
        config = self.config
        wants_model = config.wants_model() and config.system == "planet"
        if wants_model and config.stats_mode == "measured":
            for dc in range(len(self.topology)):
                self.statistics.start_agent(
                    dc, ping_interval_ms=config.ping_interval_ms)
        elif wants_model and config.stats_mode == "distributed":
            from repro.core.dissemination import DisseminationService
            self.dissemination = DisseminationService(
                self.env, self.cluster, self.streams,
                bin_ms=config.bin_ms, n_bins=config.n_bins)
            self._agents = {
                dc: self.dissemination.start_agent(
                    dc, ping_interval_ms=config.ping_interval_ms)
                for dc in range(len(self.topology))
            }
        elif wants_model and config.stats_mode == "oracle":
            # Converged statistics from the start: admission control
            # and speculation are active during warmup too.
            self._prepare_oracle_model()
        elif wants_model:
            raise ValueError(f"unknown stats_mode {config.stats_mode!r}")

        if config.faults is not None:
            # Environment script: injection processes ride the same
            # kernel, firing at their scheduled virtual times.
            config.faults.apply(self.cluster)
        load = self._build_load()
        total = config.warmup_ms + config.duration_ms
        load.start(duration_ms=total)

        # Warmup heats the access-rate buckets and the contention
        # equilibrium; in measured mode the model is built from the
        # statistics at the end of warmup.
        self.env.run(until=config.warmup_ms)
        if wants_model and config.stats_mode == "measured":
            self._prepare_measured_model()
            if config.model_refresh_ms:
                self.env.process(self._refresh_loop(
                    self._prepare_measured_model, config.model_refresh_ms))
        elif wants_model and config.stats_mode == "distributed":
            self._prepare_distributed_models()
            if config.model_refresh_ms:
                self.env.process(self._refresh_loop(
                    self._prepare_distributed_models,
                    config.model_refresh_ms))
        self.env.run(until=total)
        load.stop()
        # Drain: let in-flight transactions decide so records are final.
        self.env.run(until=total + config.drain_ms)

        collector = MetricsCollector(config.warmup_ms, total)
        likelihoods: List[float] = []
        self._issuer.finalize(collector, likelihoods)
        obs_artifacts = None
        if self.obs_session is not None:
            self.obs_session.detach(self.env)
            obs_artifacts = self.obs_session.artifacts(meta={
                "source": "experiment", "name": config.name,
                "seed": config.seed, "system": config.system})
        return ExperimentResult(
            config=config, metrics=collector,
            initial_likelihoods=likelihoods,
            read_latencies_ms=list(self._issuer.read_latencies_ms),
            obs=obs_artifacts)
