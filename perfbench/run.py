"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload hotspot_admission --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` runs the same input once untraced and then with
span wrappers on every layer, and reports the per-layer metrics.  Every
run checks the simulated outputs; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  A results file with
provenance goes to ``perfbench/results/`` (see ``compare.py``), and a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro.check  # noqa: E402

if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
    raise SystemExit(f"imported repro from {repro.__file__}, "
                     f"not from {ROOT / 'src'}")

from layers import LAYERS, Tracer  # noqa: E402
from workloads import (CALIBRATION_REF_S, DEFAULT_SEED,  # noqa: E402
                       HELD_OUT_SEED, WORKLOADS, Calibrated, PassResult)

END_TO_END = {
    "setup_s": "s",
    "host_tx_per_s": "tx/s",
    "peak_rss_mb": "MB",
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "goodput_tps": "tx/s",
    "commit_frac": "ratio",
}

#: Request kinds ``StorageNode`` serves.  Its ``ping`` handler is left
#: out: only measured-statistics agents send pings, and no workload
#: runs them.
STORAGE_KINDS = ("read", "propose", "phase2a", "fast2a", "visibility",
                 "phase1a", "stats_push")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sim.events_per_tx": "count/tx",
    "net.msgs_per_tx": "count/tx",
    "net.send_s": "s",
    "net.drop_frac": "ratio",
    "net.rpc_timeouts": "count",
    **{f"storage.handler_s.{kind}": "s" for kind in STORAGE_KINDS},
    "storage.queue_depth_max": "count",
    "storage.records": "count",
    "storage.takeovers": "count",
    "paxos.option_accept_ratio": "ratio",
    "paxos.rounds_lost": "count",
    "paxos.stale_proposals": "count",
    "paxos.fallback_proposals": "count",
    "mdcc.begin_s": "s",
    "mdcc.abort_frac": "ratio",
    "mdcc.undecided_frac": "ratio",
    "mdcc.fast_chosen_ratio": "ratio",
    "mdcc.collisions": "count",
    "core.model_build_s": "s",
    "core.model_builds": "count",
    "core.likelihood_s": "s",
    "core.likelihood_calls": "count",
    "core.memo_hit_ratio": "ratio",
    "core.reject_frac": "ratio",
    "core.session_s": "s",
    "workload.build_s": "s",
    "workload.builds": "count",
    "check.invariants_s": "s",
    "check.history_events_per_tx": "count/tx",
    "harness.setup.construct_s": "s",
    "harness.setup.table_s": "s",
    "harness.setup.model_s": "s",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    "spec_wrong_frac": "ratio",
    "recovery_ms": "ms",
    "violations": "count",
}


# -- provenance ---------------------------------------------------------------


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "none"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over every Python file of the program under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host() -> Dict[str, Any]:
    uname = platform.uname()
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    info = {
        "node": uname.node,
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "python": platform.python_implementation() + " "
                  + platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
    }
    info["fingerprint"] = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")).hexdigest()
    return info


def provenance(workload, args, passes: int) -> Dict[str, Any]:
    return {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload": workload.name,
        "config_digest": hashlib.sha256(
            workload.describe().encode("utf-8")).hexdigest(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "host": host(),
        "run": {"seconds": args.seconds, "scale": args.scale,
                "trace": args.trace, "passes": passes},
    }


# -- measurement --------------------------------------------------------------


def timed_passes(workload, seconds: float,
                 setups: List[float]) -> List[PassResult]:
    """Passes over the same input while they fit in ``seconds``.

    Set-up samples are taken before every pass and after the last, so
    they see the same spread of host conditions as the passes do.
    """
    def sample_setups() -> None:
        if workload.setup_samples:
            with Calibrated() as clock:
                raw = [workload.setup_once()
                       for _ in range(workload.setup_samples)]
            setups.extend(setup * clock.speed for setup in raw)

    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        sample_setups()
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= workload.min_passes and (
                elapsed * (len(passes) + 1) / len(passes) > seconds):
            sample_setups()
            return passes


def output_checks(workload, passes: List[PassResult]) -> List[str]:
    """Each pass's own checks, and equal outputs on every repeat."""
    failures: List[str] = []
    if len(passes) < 2:
        again = workload.run_pass(prefix=True)
        failures.extend(f"repeat: {check}" for check in again.checks)
        if again.parts != passes[0].parts[:len(again.parts)]:
            failures.append("repeat: simulated outputs differ from pass 0")
    for index, result in enumerate(passes):
        failures.extend(f"pass {index}: {check}" for check in result.checks)
        if result.digest != passes[0].digest:
            failures.append(f"pass {index}: simulated outputs differ from "
                            "pass 0")
    return failures


def end_to_end(workload, args) -> Tuple[Dict[str, float], Dict[str, Any],
                                        List[str], int]:
    setups: List[float] = []
    passes = timed_passes(workload, args.seconds, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates = [p.transactions / p.host_s for p in passes]
    raw_rates = [p.transactions / p.raw_host_s for p in passes]
    setups += [setup for p in passes for setup in p.setups]
    if workload.name == "outage_failover":
        # Untimed verification: the same input with the history
        # recorder attached must pass the invariant catalogue.
        verified = workload.run_pass(recorder=True)
        violations = repro.check.check_history(verified.objects.pop("history"))
        verified.outputs["violations"] = len(violations)
        if violations:
            verified.checks.append(
                f"{len(violations)} invariant violation(s): "
                + ", ".join(sorted({v.code for v in violations})))
        passes.append(verified)
    failures = output_checks(workload, passes)
    outputs = passes[-1].outputs
    metrics = {
        "setup_s": statistics.median(setups),
        "host_tx_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "commit_p50_ms": outputs["commit_p50_ms"],
        "commit_p99_ms": outputs["commit_p99_ms"],
        "goodput_tps": outputs["goodput_tps"],
        "commit_frac": outputs["commit_frac"],
    }
    detail = {"setup_samples_s": setups, "host_tx_per_s_samples": rates,
              "raw_host_tx_per_s_samples": raw_rates,
              "calibration_ref_s": CALIBRATION_REF_S,
              "outputs": outputs, "digest": passes[0].digest}
    return metrics, detail, failures, len(passes)


def per_layer(workload, args) -> Tuple[Dict[str, float], Dict[str, Any],
                                       List[str], int]:
    reference = workload.run_pass()
    with Tracer() as setup_tracer:
        setup_total = workload.setup_once()
    setup_log = setup_tracer.log
    table_s = setup_log.by_prefix("mdcc.set_default_stock") \
        + setup_log.by_prefix("mdcc.load")
    model_s = setup_log.by_prefix("core.model", "self_s")

    tracer = Tracer()
    with tracer:
        result = workload.run_pass()
    failures = output_checks(workload, [reference, result])
    log = tracer.log
    outputs = result.outputs

    n_tx = sum(tm.started for tm in tracer.tms)
    nodes = [node for cluster in tracer.clusters
             for dc in sorted(cluster.nodes) for node in cluster.nodes[dc]]
    started = n_tx or 1
    committed = sum(tm.committed for tm in tracer.tms)
    aborted = sum(tm.aborted for tm in tracer.tms)
    fast_chosen = sum(tm.fast_chosen for tm in tracer.tms)
    fallbacks = sum(tm.fallbacks for tm in tracer.tms)
    sent = sum(cluster.transport.sent for cluster in tracer.clusters)
    dropped = sum(cluster.transport.dropped for cluster in tracer.clusters)
    accepted = sum(node.options_accepted for node in nodes)
    rejected = sum(node.options_rejected for node in nodes)
    hits = sum(model.memo.hits for model in tracer.models
               if model.memo is not None)
    lookups = hits + sum(model.memo.misses for model in tracer.models
                         if model.memo is not None)
    events = sum(cluster.env._eid for cluster in tracer.clusters)
    history_events = outputs.get("history_events", 0)
    layer_self = log.layer_self_s()
    traced_wall = result.host_s + sum(result.setups)

    metrics: Dict[str, float] = {
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "sim.events_per_tx": events / started,
        "net.msgs_per_tx": sent / started,
        "net.send_s": log.by_prefix("net.send"),
        "net.drop_frac": dropped / sent if sent else 0.0,
        "net.rpc_timeouts": tracer.rpc_timeouts,
        **{f"storage.handler_s.{kind}":
           log.by_prefix(f"storage.handler.{kind}")
           for kind in STORAGE_KINDS},
        "storage.queue_depth_max": max(
            (node.endpoint.max_queue_depth for node in nodes), default=0),
        "storage.records": sum(len(node.records) for node in nodes),
        "storage.takeovers": log.calls[
            log.name_id("storage.take_mastership")],
        "paxos.option_accept_ratio": (accepted / (accepted + rejected)
                                      if accepted + rejected else 0.0),
        "paxos.rounds_lost": sum(node.rounds_lost for node in nodes),
        "paxos.stale_proposals": sum(node.stale_proposals
                                     for node in nodes),
        "paxos.fallback_proposals": sum(node.fallback_proposals
                                        for node in nodes),
        "mdcc.begin_s": log.by_prefix("mdcc.begin"),
        "mdcc.abort_frac": aborted / started,
        "mdcc.undecided_frac": (n_tx - committed - aborted) / started,
        "mdcc.fast_chosen_ratio": (fast_chosen / (fast_chosen + fallbacks)
                                   if fast_chosen + fallbacks else 0.0),
        "mdcc.collisions": sum(tm.collisions for tm in tracer.tms),
        "core.model_build_s": log.by_prefix("core.model", "self_s"),
        "core.model_builds": (log.calls[log.name_id("core.model.precompute")]
                              + log.calls[log.name_id("core.model.refresh")]),
        "core.likelihood_s": log.by_prefix("core.likelihood"),
        "core.likelihood_calls": log.calls[log.name_id("core.likelihood")],
        "core.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "core.reject_frac": (outputs["rejected"] / outputs["issued"]
                             if outputs["issued"] else 0.0),
        "core.session_s": log.by_prefix("core.session"),
        "workload.build_s": log.by_prefix("workload.build"),
        "workload.builds": log.calls[log.name_id("workload.build")],
        "check.invariants_s": log.by_prefix("check.invariants"),
        "check.history_events_per_tx": history_events / started,
        "harness.setup.construct_s": max(setup_total - table_s - model_s,
                                         0.0),
        "harness.setup.table_s": table_s,
        "harness.setup.model_s": model_s,
        "trace.overhead_frac": traced_wall / (reference.host_s
                                              + sum(reference.setups)) - 1.0,
        "fail_frac": 1.0 - outputs["commit_frac"],
        "spec_wrong_frac": outputs.get("spec_wrong_frac", 0.0),
        "recovery_ms": outputs.get("recovery_ms", 0.0),
        "violations": outputs["violations"],
    }
    spans_path = RESULTS / f"{workload.name}.spans.npz"
    log.write(spans_path)
    detail = {"outputs": outputs, "digest": result.digest,
              "spans": len(log), "spans_file": str(
                  spans_path.relative_to(ROOT)),
              "top_self_s": log.summary()[:25]}
    return metrics, detail, failures, 2


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (1.0 is the benchmark)")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default: perfbench/results/)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    measure = per_layer if args.trace else end_to_end
    metrics, detail, failures, passes = measure(workload, args)
    units = PER_LAYER if args.trace else END_TO_END
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    outputs = detail["outputs"]
    attempted = int(outputs["issued"])
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    out = args.out or RESULTS / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "provenance": provenance(workload, args, passes),
        "summary": summary, "checks_failed": failures, "detail": detail,
    }, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
