"""The benchmark's four workloads: inputs from a seed, one simulated pass.

Every workload is an open loop in virtual time: the simulator issues each
arrival at its due virtual time, so generator lateness is zero by
construction.  A *pass* runs the workload's whole input once in a fresh
kernel and returns its simulated outputs (identical for a given seed on
every pass) together with the host time it took.

The program under test only ever receives the generated configuration;
the seed is the benchmark's argument.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.check import CheckConfig, HistoryRecorder, run_check
from repro.core.admission import DynamicPolicy
from repro.harness import Experiment, ExperimentConfig
from repro import obs
from repro.scenarios import get_scenario
from repro.scenarios.runner import FULL, RECOVERY_THRESHOLD, Arm, \
    build_config
from repro.sim import Environment

#: Seed used when none is given; the README's traced numbers are for it.
DEFAULT_SEED = 1
#: Seed no tuning looked at: a later claim must also hold here.
HELD_OUT_SEED = 7919


#: Host time is reported in *reference seconds*: seconds on a host where
#: :func:`calibration_s` takes this long.  A shared 2-vCPU VM drifts
#: between speeds up to 1.8x apart within a minute; timing a fixed
#: pure-Python loop around every measured interval and scaling by it
#: removes most of that drift from the reported times.
CALIBRATION_REF_S = 0.005


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Calibrated:
    """Brackets an interval with calibration loops; ``speed`` scales its
    host seconds to reference seconds."""

    def __enter__(self) -> "Calibrated":
        self._before = calibration_s()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.speed = CALIBRATION_REF_S / (
            (self._before + calibration_s()) / 2.0)


class SetupDone(Exception):
    """Raised at the first simulated arrival of a setup-only pass."""


class FirstRun:
    """Marks the first ``Environment.run`` call of each kernel.

    That call is where the first simulated arrival happens, so the host
    time before it is the workload's set-up.  With ``abort`` the call
    raises :class:`SetupDone` instead of simulating.
    """

    def __init__(self, abort: bool = False):
        self.abort = abort
        self.marks: List[float] = []
        self._env: Optional[Environment] = None
        self._original = Environment.run

    def __enter__(self) -> "FirstRun":
        original, hook = self._original, self

        def run(env: Environment, until: Optional[float] = None) -> None:
            if env is not hook._env:
                hook._env = env
                hook.marks.append(time.perf_counter())
                if hook.abort:
                    raise SetupDone()
            return original(env, until)

        Environment.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        Environment.run = self._original  # type: ignore[method-assign]
        self._env = None


@dataclass
class PassResult:
    """What one pass over a workload's input produced."""

    outputs: Dict[str, Any]          # simulated outputs, exact per seed
    parts: List[str]                 # sha256 of each independent run's outputs
    transactions: int                # transactions simulated in the pass
    host_s: float                    # reference seconds after first arrival
    setups: List[float]              # reference seconds before first arrivals
    raw_host_s: float                # host_s in unscaled host seconds
    checks: List[str] = field(default_factory=list)   # failed checks
    objects: Dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return _digest(self.parts)


def _digest(rows: Any) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def canonical(obj: Any) -> str:
    """A repr with no memory addresses, for digesting configurations."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(f"{f.name}={canonical(getattr(obj, f.name))}"
                           for f in dataclasses.fields(obj))
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical(item) for item in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}"
                               for k, v in sorted(obj.items(), key=repr)) + "}"
    state = getattr(obj, "__dict__", None)
    if state is not None and type(obj).__repr__ is object.__repr__:
        return f"{type(obj).__qualname__}({canonical(state)})"
    return repr(obj)


def _collect() -> None:
    """Free the previous pass's object graph before the next starts."""
    gc.collect()


# -- experiment-shaped workloads ----------------------------------------------


class ExperimentWorkload:
    """A workload that is one :class:`repro.harness.Experiment` run."""

    name = ""
    why = ""
    setup_samples = 3       # set-up-only constructions per pass
    min_passes = 2          # timed passes per run, at least

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.config = self.build(seed, scale)

    def build(self, seed: int, scale: float) -> ExperimentConfig:
        raise NotImplementedError

    def describe(self) -> str:
        return canonical(self.config)

    def setup_once(self) -> float:
        """Construct and set up one experiment; stop at first arrival."""
        _collect()
        with FirstRun(abort=True) as first:
            start = time.perf_counter()
            try:
                Experiment(self.config).run()
            except SetupDone:
                pass
        if not first.marks:
            raise RuntimeError(f"{self.name}: no simulated arrival")
        return first.marks[0] - start

    def run_pass(self, recorder: bool = False,
                 prefix: bool = False) -> PassResult:
        """One experiment; ``recorder`` attaches a history recorder and
        returns the history (``prefix`` has no meaning here)."""
        del prefix
        _collect()
        with Calibrated() as clock, FirstRun() as first:
            start = time.perf_counter()
            experiment = Experiment(self.config)
            history_recorder = None
            if recorder:
                history_recorder = HistoryRecorder()
                history_recorder.attach(experiment.cluster)
            result = experiment.run()
            end = time.perf_counter()
        history = history_recorder.detach() if history_recorder else None
        arrival = first.marks[0]
        outputs, digest, checks = self.outputs(experiment, result)
        transactions = (len(result.metrics.all_records)
                        + len(result.read_latencies_ms))
        return PassResult(
            outputs=outputs, parts=[digest], transactions=transactions,
            host_s=(end - arrival) * clock.speed,
            setups=[(arrival - start) * clock.speed],
            raw_host_s=end - arrival, checks=checks,
            objects={"history": history} if recorder else {})

    def outputs(self, experiment: Experiment, result) -> tuple:
        config = self.config
        metrics = result.metrics
        window = metrics.records
        committed = [r for r in window if r.committed is True]
        aborted = [r for r in window if r.admitted and r.committed is False]
        rejected = [r for r in window if not r.admitted]
        undecided = [r for r in window
                     if r.admitted and r.committed is None]
        issued = len(window)
        latencies = [r.response_ms for r in committed]
        goodput = sum(1 for r in metrics.all_records
                      if r.committed and r.decided_before_timeout
                      and metrics.window_start_ms <= r.decided_ms
                      < metrics.window_end_ms)
        outputs: Dict[str, Any] = {
            "issued": issued,
            "committed": len(committed),
            "aborted": len(aborted),
            "rejected": len(rejected),
            "undecided": len(undecided),
            "commit_p50_ms": obs.quantile(latencies, 0.50),
            "commit_p99_ms": obs.quantile(latencies, 0.99),
            "commit_samples": len(latencies),
            "goodput_tps": goodput / metrics.window_seconds,
            "commit_frac": len(committed) / issued if issued else 0.0,
            "spec_wrong_frac": metrics.spec_incorrect_fraction(),
            "spec_commits": metrics.n_spec,
            "violations": 0,
        }
        outputs.update(self.extra_outputs(metrics.all_records))
        cluster = experiment.cluster
        rows = [(r.issued_ms, r.admitted, r.accepted_ms, r.decided_ms,
                 r.committed, r.spec_ms, r.spec_incorrect, r.stage_fired,
                 r.hot, r.size) for r in metrics.all_records]
        rows.append((experiment.env.now, experiment.env._eid,
                     cluster.transport.sent,
                     cluster.transport.dropped,
                     tuple(result.read_latencies_ms)))
        checks = []
        if issued != (len(committed) + len(aborted) + len(rejected)
                      + len(undecided)):
            checks.append("issued != committed + aborted + rejected "
                          "+ undecided")
        if issued == 0 or not latencies:
            checks.append("no committed transaction in the window")
        if config.spec_threshold is None and metrics.n_spec:
            checks.append("speculative commits without a threshold")
        return outputs, _digest(rows), checks

    def extra_outputs(self, records) -> Dict[str, Any]:
        """Outputs only this workload has."""
        del records
        return {}


class HotspotAdmission(ExperimentWorkload):
    name = "hotspot_admission"
    why = ("hotspot contention under dynamic admission and speculation "
           "with disseminated statistics: likelihood, admission and "
           "option conflicts do real work")

    def build(self, seed: int, scale: float) -> ExperimentConfig:
        return ExperimentConfig(
            name=self.name, seed=seed, topology="ec2", n_items=200_000,
            hotspot_size=800, hot_prob=0.9, rate_tps=200.0,
            min_items=1, max_items=4, admission=DynamicPolicy(50.0),
            spec_threshold=0.95, stats_mode="distributed",
            model_refresh_ms=1_000.0, storage_service_ms=0.8,
            timeout_ms=5_000.0, warmup_ms=2_000.0 * scale,
            duration_ms=8_000.0 * scale, drain_ms=3_000.0 * scale)


class UniformFastRW(ExperimentWorkload):
    name = "uniform_fast_rw"
    why = ("uniform keys on fast ballots with half read-only browses and "
           "no likelihood model: kernel, transport, storage reads and the "
           "fast path dominate")

    def build(self, seed: int, scale: float) -> ExperimentConfig:
        return ExperimentConfig(
            name=self.name, seed=seed, topology="ec2", n_items=200_000,
            mode="fast", rate_tps=400.0, read_fraction=0.5,
            storage_service_ms=0.8, timeout_ms=5_000.0,
            warmup_ms=1_000.0 * scale, duration_ms=5_000.0 * scale,
            drain_ms=2_000.0 * scale)


class OutageFailover(ExperimentWorkload):
    name = "outage_failover"
    why = ("whole-DC outage with mastership failover, RPC timeouts and "
           "catch-up: the only faulted workload")
    scenario = get_scenario("dc_outage_failover")
    arm = Arm("dynamic", "classic")

    def build(self, seed: int, scale: float) -> ExperimentConfig:
        # The FULL profile's cluster, rate, items, timeouts and oracle
        # model, on shorter windows; the outage keeps its place as a
        # fraction of the measurement window.
        self.profile = dataclasses.replace(
            FULL, label="bench", warmup_ms=2_500.0 * scale,
            duration_ms=8_000.0 * scale, drain_ms=3_000.0 * scale)
        return build_config(self.scenario, self.arm, self.profile, seed)

    def extra_outputs(self, records) -> Dict[str, Any]:
        """Time to recover 95 % of the baseline commit rate, as the
        scenario runner measures it."""
        profile, scenario = self.profile, self.scenario
        total = profile.warmup_ms + profile.duration_ms
        fault_start, fault_end = scenario.disturbance_window(
            profile.warmup_ms, profile.duration_ms)
        commits = [r.decided_ms for r in records
                   if r.committed and r.decided_ms is not None]
        series = obs.binned_rate(commits, 0.0, total, profile.bin_ms)
        pre = [r for r in records
               if profile.warmup_ms / 2.0 <= r.issued_ms < fault_start]
        fraction = (sum(r.committed is True for r in pre) / len(pre)
                    if pre else 1.0)
        recovery = obs.extract_recovery(
            series, fault_start, fault_end,
            baseline_start_ms=profile.warmup_ms / 2.0,
            threshold=RECOVERY_THRESHOLD, sustain_bins=3,
            baseline_cap=profile.rate_tps * scenario.rate_scale * fraction)
        # A run that never recovers reports the whole post-fault span.
        value = (recovery.recovery_ms if recovery.recovered
                 else total - fault_start)
        return {"recovery_ms": value, "recovered": recovery.recovered}


# -- the fuzz sweep -----------------------------------------------------------


class FuzzSweep:
    """Consecutive seeds of the default checked fuzz configuration."""

    name = "fuzz_sweep"
    why = ("many tiny checked fault-injection runs: per-run set-up, the "
           "history recorder and the invariant catalogue dominate")
    setup_samples = 0       # every seed's own set-up is a sample
    min_passes = 1          # a repeat of the first chunk checks repeats
    SEEDS_PER_PASS = 400
    CHUNK = 20              # seeds per garbage collection and repeat check

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        count = max(2, round(self.SEEDS_PER_PASS * scale))
        first = seed * self.SEEDS_PER_PASS
        self.configs = [CheckConfig(seed=s)
                        for s in range(first, first + count)]

    def describe(self) -> str:
        return (f"{canonical(dataclasses.replace(self.configs[0], seed=0))} "
                f"seeds {self.configs[0].seed}..{self.configs[-1].seed}")

    def setup_once(self) -> float:
        """Set up the first seed's run; stop at its first arrival."""
        _collect()
        with FirstRun(abort=True) as first:
            start = time.perf_counter()
            try:
                run_check(self.configs[0])
            except SetupDone:
                pass
        return first.marks[0] - start

    def run_pass(self, recorder: bool = False,
                 prefix: bool = False) -> PassResult:
        """Every seed (or, with ``prefix``, the first chunk) through
        ``run_check``; each run records and checks its own history, so
        ``recorder`` adds nothing."""
        del recorder
        configs = self.configs[:self.CHUNK] if prefix else self.configs
        tally = _FuzzTally()
        setups: List[float] = []
        host_s = raw_host_s = 0.0
        for begin in range(0, len(configs), self.CHUNK):
            _collect()
            chunk_setups: List[float] = []
            chunk_s = 0.0
            with Calibrated() as clock, FirstRun() as first:
                for config in configs[begin:begin + self.CHUNK]:
                    start = time.perf_counter()
                    result = run_check(config)
                    end = time.perf_counter()
                    chunk_setups.append(first.marks[-1] - start)
                    chunk_s += end - first.marks[-1]
                    tally.add(result)
            setups.extend(setup * clock.speed for setup in chunk_setups)
            host_s += chunk_s * clock.speed
            raw_host_s += chunk_s
        outputs, checks = tally.outputs()
        return PassResult(
            outputs=outputs, parts=tally.parts,
            transactions=outputs["started"], host_s=host_s, setups=setups,
            raw_host_s=raw_host_s, checks=checks)


class _FuzzTally:
    """Folds checked runs into the sweep's outputs, one run at a time."""

    def __init__(self) -> None:
        self.started = self.committed = self.aborted = 0
        self.undecided = self.violations = self.history_events = 0
        self.virtual_ms = 0.0
        self.latencies: List[float] = []
        self.parts: List[str] = []
        self.checks: List[str] = []

    def add(self, result) -> None:
        """Fold in one checked run."""
        history = result.history
        begins = {e.get("txid"): e.ts for e in history.of_type("tx_begin")}
        decided = history.of_type("tx_decided")
        commits = [e for e in decided if e.get("committed")]
        self.latencies.extend(e.ts - begins[e.get("txid")] for e in commits)
        stats = result.stats
        if (len(begins), len(commits), len(decided) - len(commits)) != (
                stats["started"], stats["committed"], stats["aborted"]):
            self.checks.append(f"seed {result.config.seed}: history and "
                               "transaction-manager counts disagree")
        self.started += len(begins)
        self.committed += len(commits)
        self.aborted += len(decided) - len(commits)
        self.undecided += len(begins) - len(decided)
        self.violations += len(result.violations)
        self.history_events += len(history)
        self.virtual_ms += stats["virtual_ms"]
        self.parts.append(_digest((
            result.config.seed, history.digest(), sorted(stats.items()),
            [v.code for v in result.violations])))

    def outputs(self) -> tuple:
        checks = list(self.checks)
        if self.violations:
            checks.append(f"{self.violations} invariant violation(s)")
        if not self.latencies:
            checks.append("no committed transaction")
        if self.started != self.committed + self.aborted + self.undecided:
            checks.append("started != committed + aborted + undecided")
        latencies = self.latencies
        return {
            "issued": self.started,
            "started": self.started,
            "committed": self.committed,
            "aborted": self.aborted,
            "rejected": 0,
            "undecided": self.undecided,
            "commit_p50_ms": obs.quantile(latencies, 0.50),
            "commit_p99_ms": obs.quantile(latencies, 0.99),
            "commit_samples": len(latencies),
            "goodput_tps": self.committed / (self.virtual_ms / 1000.0),
            "commit_frac": (self.committed / self.started
                            if self.started else 0.0),
            "violations": self.violations,
            "history_events": self.history_events,
        }, checks


WORKLOADS: Dict[str, Callable[..., Any]] = {
    cls.name: cls for cls in (HotspotAdmission, UniformFastRW,
                              OutageFailover, FuzzSweep)
}
