"""Per-layer attribution: spans recorded around calls into each layer.

Nothing here changes the program.  :class:`Tracer` replaces public
functions of the ``repro.*`` layers with wrappers that record a span
(name, start, end, parent, txid) around each call, and restores them on
exit.  Four generic hooks cover work the kernel runs on a layer's behalf:

* every process's generator, wrapped through ``Environment.process``'s
  documented ``process_wrapper`` slot, so each resume of a protocol
  coroutine is a span of the module that defines it;
* every wheel timer armed through ``Environment.arm_timer``;
* every message handed to an address registered with
  ``Transport.register`` (the RPC endpoint's dispatch);
* every request handler registered with ``RpcEndpoint.on``, named
  ``<layer>.handler.<kind>``.

A span's self time is its duration minus its children's.  Kernel time
not covered by any wrapped call stays in ``repro.sim``'s ``Environment.run``
span.  Spans stay in memory (columnar arrays) and are written when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The program's layers, named after their packages.
LAYERS = ("sim", "net", "storage", "paxos", "mdcc", "core", "workload",
          "check", "harness", "obs")

#: Packages outside the list above, attributed to the layer that owns them.
_PACKAGE_LAYER = {"scenarios": "harness", "baseline": "mdcc"}

_perf = time.perf_counter


def layer_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0:
        return "bench"
    package = path[index + len(marker):].split("/", 1)[0]
    package = package[:-3] if package.endswith(".py") else package
    return _PACKAGE_LAYER.get(package, package)


def _code_of(callback: Any):
    code = getattr(callback, "__code__", None)
    if code is None:
        code = getattr(getattr(callback, "__func__", None), "__code__", None)
    return code


def _txid(obj: Any) -> Optional[str]:
    txid = getattr(obj, "txid", None)
    return txid if isinstance(txid, str) else None


class SpanLog:
    """Columnar span store with running self-time totals per name."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.txids: List[str] = []
        self._txid_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.txid = array("i")
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.calls: List[int] = []
        self._stack: List[List[float]] = []   # [span index, child time]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def txid_id(self, txid: Optional[str]) -> int:
        if txid is None:
            return -1
        tid = self._txid_ids.get(txid)
        if tid is None:
            tid = self._txid_ids[txid] = len(self.txids)
            self.txids.append(txid)
        return tid

    def open(self, nid: int, tid: int = -1) -> None:
        stack = self._stack
        index = len(self.start)
        self.parent.append(int(stack[-1][0]) if stack else -1)
        self.name.append(nid)
        self.txid.append(tid)
        self.end.append(0.0)
        stack.append([index, 0.0])
        self.start.append(_perf())

    def close(self) -> None:
        end = _perf()
        stack = self._stack
        index, child = stack.pop()
        index = int(index)
        duration = end - self.start[index]
        self.end[index] = end
        nid = self.name[index]
        self.self_s[nid] += duration - child
        self.total_s[nid] += duration
        self.calls[nid] += 1
        if stack:
            stack[-1][1] += duration

    def __len__(self) -> int:
        return len(self.start)

    # -- readout --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self.self_s[nid]
        return totals

    def by_prefix(self, prefix: str, column: str = "total_s") -> float:
        values = getattr(self, column)
        return sum(values[nid] for nid, name in enumerate(self.names)
                   if name == prefix or name.startswith(prefix + "."))

    def summary(self) -> List[Dict[str, Any]]:
        rows = [{"name": name, "calls": self.calls[nid],
                 "self_s": self.self_s[nid], "total_s": self.total_s[nid]}
                for nid, name in enumerate(self.names)]
        return sorted(rows, key=lambda row: -row["self_s"])

    def write(self, path: Path) -> None:
        """Spans as a numpy ``.npz``: one array per column (``start_s``
        and ``end_s`` in host seconds from the first span, ``parent`` a
        row index or -1, ``name``/``txid`` indexes into the ``names``
        and ``txids`` tables, -1 for no txid)."""
        import numpy as np

        base = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                names=np.array(self.names, dtype=str),
                txids=np.array(self.txids, dtype=str),
                name=np.frombuffer(self.name, dtype=np.int32),
                start_s=np.frombuffer(self.start, dtype=np.float64) - base,
                end_s=np.frombuffer(self.end, dtype=np.float64) - base,
                parent=np.frombuffer(self.parent, dtype=np.int32),
                txid=np.frombuffer(self.txid, dtype=np.int32))


class Tracer:
    """Installs span wrappers on the ``repro.*`` layers; a context manager.

    What the spans cannot give (RPC timeouts, the model, cluster and
    transaction-manager objects) is gathered by the same wrappers.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self._restore: List[Tuple[Any, str, Any]] = []
        self.rpc_timeouts = 0
        self.models: List[Any] = []
        self.clusters: List[Any] = []
        self.tms: List[Any] = []

    # -- patching helpers -----------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        original = getattr(owner, attr)
        replacement = functools.wraps(original)(make(original))
        own = attr in vars(owner)
        self._restore.append((owner, attr, raw if own else None))
        setattr(owner, attr, replacement)

    def span(self, owner: Any, attr: str, name: str,
             txid: Optional[Callable[..., Optional[str]]] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        log, nid = self.log, self.log.name_id(name)
        self._patch(owner, attr,
                    lambda original: _spanned(log, nid, original, txid))

    def span_function(self, modules: Iterable[Any], attr: str,
                      name: str) -> None:
        """Wrap a module-level function in every namespace that imported
        it by name, so callers that hold their own reference see it too."""
        modules = list(modules)
        original = getattr(modules[0], attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                self.span(module, attr, name)

    def after(self, owner: Any, attr: str,
              hook: Callable[..., None]) -> None:
        """Call ``hook(result, *args)`` after each ``owner.attr`` call."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(result, *args)
                return result
            return wrapper

        self._patch(owner, attr, make)

    # -- generic kernel hooks -------------------------------------------------

    def _process_wrapper(self, generator):
        code = generator.gi_code
        log = self.log
        nid = log.name_id(f"{layer_of_file(code.co_filename)}.process."
                          f"{getattr(code, 'co_qualname', code.co_name)}")
        frame = generator.gi_frame
        tid = log.txid_id(_txid(frame.f_locals.get("handle"))
                          if frame is not None else None)
        return _timed_generator(generator, log, nid, tid)

    def _timer_callback(self, callback):
        code = _code_of(callback)
        layer = layer_of_file(code.co_filename) if code else "bench"
        qualname = (getattr(code, "co_qualname", code.co_name)
                    if code else type(callback).__name__)
        log = self.log
        return _spanned(log, log.name_id(f"{layer}.timer.{qualname}"),
                        callback)

    def _delivery_handler(self, handler):
        return _spanned(self.log, self.log.name_id("net.deliver"), handler,
                        lambda message: _txid(message.payload))

    def _request_handler(self, kind: str, handler):
        code = _code_of(handler)
        layer = layer_of_file(code.co_filename) if code else "bench"
        log = self.log
        return _spanned(log, log.name_id(f"{layer}.handler.{kind}"),
                        handler, lambda payload, _src: _txid(payload))

    # -- install --------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro import obs as obs_pkg
        from repro import check as check_pkg
        from repro.check import faults, invariants, recorder
        from repro.check import runner as check_runner
        from repro.core import dissemination, likelihood, statistics
        from repro.core import transaction as core_tx
        from repro.core.admission import DynamicPolicy, FixedPolicy
        from repro.harness import experiment
        from repro.mdcc import cluster as mdcc_cluster
        from repro.mdcc import coordinator
        from repro.net import rpc, transport
        from repro.obs import timeseries, txmetrics
        from repro.paxos import acceptor, fast, round as paxos_round
        from repro.scenarios import runner as scenario_runner
        from repro.sim import kernel
        from repro.storage import node as storage_node
        from repro.workload import buying
        import repro.paxos as paxos_pkg

        tracer = self
        env_cls = kernel.Environment

        # repro.sim: the event loop, plus the per-kernel hooks.
        self.span(env_cls, "run", "sim.run")

        def init_hook(_result, env, *args, **kwargs):
            env.process_wrapper = tracer._process_wrapper
        self.after(env_cls, "__init__", init_hook)

        def make_arm(original):
            def arm_timer(env, deadline_ms, callback):
                return original(env, deadline_ms,
                                tracer._timer_callback(callback))
            return arm_timer
        self._patch(env_cls, "arm_timer", make_arm)

        # repro.net: sends, calls (and their timeouts), deliveries.
        self.span(transport.Transport, "send", "net.send",
                  txid=_argument_txid(2, "message", "payload"))

        def make_register(original):
            def register(transport_, address, datacenter, handler):
                return original(transport_, address, datacenter,
                                tracer._delivery_handler(handler))
            return register
        self._patch(transport.Transport, "register", make_register)

        def count_timeout(event):
            if not event.ok and isinstance(event.value, rpc.RpcTimeout):
                tracer.rpc_timeouts += 1

        self.span(rpc.RpcEndpoint, "call", "net.call",
                  txid=_argument_txid(3, "payload"))
        self.after(rpc.RpcEndpoint, "call",
                   lambda event, *args, **kwargs: event.callbacks.append(
                       count_timeout))

        def make_on(original):
            def on(endpoint, kind, handler):
                return original(endpoint, kind,
                                tracer._request_handler(kind, handler))
            return on
        self._patch(rpc.RpcEndpoint, "on", make_on)

        # repro.storage: handlers come through RpcEndpoint.on above.
        self.span(storage_node.StorageNode, "take_mastership",
                  "storage.take_mastership")
        self.span(storage_node.StorageNode, "catch_up_from",
                  "storage.catch_up")

        # repro.paxos: acceptor rules and round construction.
        for attr in ("handle_phase1a", "handle_phase2a", "handle_fast2a"):
            self.span_function((acceptor, paxos_pkg, storage_node), attr,
                               f"paxos.{attr}")
        self.span(paxos_round.PaxosRound, "__init__", "paxos.round")
        self.span(fast.FastRound, "__init__", "paxos.fast_round")

        # repro.mdcc: transaction entry points and clients.
        self.span(coordinator.TransactionManager, "begin", "mdcc.begin")
        self.span(coordinator.TransactionManager, "read_only",
                  "mdcc.begin.read_only")

        def keep_client(tm, cluster, *args, **kwargs):
            if not tracer.clusters or tracer.clusters[-1] is not cluster:
                tracer.clusters.append(cluster)
            tracer.tms.append(tm)
        self.after(mdcc_cluster.Cluster, "create_client", keep_client)
        self.span(mdcc_cluster.Cluster, "set_default_stock",
                  "mdcc.set_default_stock")
        self.span(mdcc_cluster.Cluster, "load", "mdcc.load")

        # repro.core: model builds, likelihood, admission, sessions.
        self.span(statistics.OracleLatencySource, "latency_matrix",
                  "core.model.latency_matrix")
        self.span(statistics.StatisticsService, "build_model",
                  "core.model.build")
        self.span(dissemination.ClientStatsAgent, "build_model",
                  "core.model.build")
        self.span(likelihood.CommitLikelihoodModel, "precompute",
                  "core.model.precompute")
        self.span(likelihood.CommitLikelihoodModel, "refresh",
                  "core.model.refresh")

        def keep_model(_result, model, *args, **kwargs):
            tracer.models.append(model)
        self.after(likelihood.CommitLikelihoodModel, "precompute",
                   keep_model)
        self.span(likelihood.CommitLikelihoodModel,
                  "record_likelihood", "core.likelihood")
        self.span(likelihood.CommitLikelihoodModel,
                  "transaction_likelihood", "core.likelihood.transaction")
        self.span(DynamicPolicy, "decide", "core.admission")
        self.span(FixedPolicy, "decide", "core.admission")
        self.span(core_tx.PlanetSession, "transaction", "core.session")
        self.span(core_tx.Tx, "execute", "core.session.execute")

        # repro.workload: transaction generation.
        self.span(buying.BuyTransactionFactory, "build", "workload.build")

        # repro.check: fault scripts, recording, invariants.
        self.span(faults.FaultSchedule, "apply", "check.faults.apply")
        self.span_function((invariants, check_pkg, check_runner,
                            scenario_runner), "check_history",
                           "check.invariants")

        def make_attach(original):
            def attach(recorder_, cluster, *args, **kwargs):
                history = original(recorder_, cluster, *args, **kwargs)
                cluster.env.tracer = tracer._history_sink(cluster.env.tracer)
                return history
            return attach
        self._patch(recorder.HistoryRecorder, "attach", make_attach)

        # repro.harness: experiment assembly and Experiment.run.
        self.span(experiment.Experiment, "__init__", "harness.construct")
        self.span(experiment.Experiment, "run", "harness.run")

        # repro.obs: result collection and time-series readouts.
        self.span(txmetrics.MetricsCollector, "add", "obs.collect")
        for attr in ("binned_rate", "extract_recovery", "quantile"):
            self.span_function((timeseries, obs_pkg, scenario_runner),
                               attr, f"obs.{attr}")

    def _history_sink(self, sink):
        return _spanned(self.log, self.log.name_id("check.record"), sink,
                        lambda _ts, _etype, _node, fields: fields.get("txid"))

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def _spanned(log: SpanLog, nid: int, function: Callable[..., Any],
             txid: Optional[Callable[..., Optional[str]]] = None):
    """``function`` recording one span per call, tagged with the txid
    that ``txid`` extracts from the call's arguments."""

    def wrapper(*args, **kwargs):
        log.open(nid, log.txid_id(txid(*args, **kwargs))
                 if txid is not None else -1)
        try:
            return function(*args, **kwargs)
        finally:
            log.close()
    return wrapper


def _argument_txid(position: int, name: str, *attrs: str):
    """Extractor of the txid carried by one argument of a call."""

    def txid(*args, **kwargs):
        value = (args[position] if len(args) > position
                 else kwargs.get(name))
        for attr in attrs:
            value = getattr(value, attr, None)
        return _txid(value)
    return txid


def _timed_generator(generator, log: SpanLog, nid: int, tid: int):
    """Drive ``generator`` step by step, one span per resume.

    Values sent and exceptions thrown in are forwarded unchanged, so the
    process behaves exactly as the bare generator would.
    """
    send, throw = generator.send, generator.throw
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        log.open(nid, tid)
        try:
            item = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            log.close()
        try:
            value = yield item
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # forwarded into the generator
            value, error = None, exc
