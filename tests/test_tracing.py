"""Tests for the per-transaction tracer."""

import pytest

from repro.core import PlanetSession
from repro.obs.txtrace import TransactionTrace, TransactionTracer
from repro.mdcc import Cluster
from repro.net import uniform_topology
from repro.sim import Environment, RandomStreams
from repro.storage import Update, WriteOp


def make_session(seed=101):
    env = Environment()
    topo = uniform_topology(3, one_way_ms=20.0, sigma=0.02)
    cluster = Cluster(env, topo, RandomStreams(seed=seed))
    cluster.load({"item:1": 100, "item:2": 100})
    return env, cluster, PlanetSession(cluster, "web", 0)


def test_trace_records_protocol_stages():
    env, cluster, session = make_session()
    tracer = TransactionTracer()
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_failure(lambda i: None)
          .on_complete(lambda i: None))
    planet_tx = tx.execute()
    trace = tracer.attach(planet_tx)
    env.run()
    stages = trace.stages()
    for expected in ("reads_done", "proposed", "accepted", "learned",
                     "decided", "stage:complete", "finally"):
        assert expected in stages
    # Times are monotone non-decreasing along the timeline.
    times = [event.at_ms for event in trace.events]
    assert times == sorted(times)


def test_trace_learned_detail_and_decision():
    env, cluster, session = make_session()
    tracer = TransactionTracer()
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1)),
                               WriteOp("item:2", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_failure(lambda i: None))
    planet_tx = tx.execute()
    trace = tracer.attach(planet_tx)
    env.run()
    learned = [e for e in trace.events if e.stage == "learned"]
    assert len(learned) == 2
    assert "accepted" in learned[-1].detail
    decided = [e for e in trace.events if e.stage == "decided"]
    assert decided[0].detail == "commit"


def test_trace_duration_between_stages():
    env, cluster, session = make_session()
    tracer = TransactionTracer()
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_failure(lambda i: None))
    planet_tx = tx.execute()
    trace = tracer.attach(planet_tx)
    env.run()
    gap = trace.duration_of("proposed", "decided")
    assert gap is not None and gap > 0
    assert trace.duration_of("proposed", "never-happens") is None


def test_trace_render_and_str():
    env, cluster, session = make_session()
    tracer = TransactionTracer()
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_failure(lambda i: None))
    planet_tx = tx.execute()
    trace = tracer.attach(planet_tx)
    env.run()
    text = trace.render()
    assert trace.txid in text
    assert "decided" in text


def test_attach_requires_started_transaction():
    tracer = TransactionTracer()
    trace = TransactionTrace(txid="t", start_ms=0.0)
    trace.add(5.0, "x")
    assert trace.events[0].at_ms == 5.0
    # attach() needs a handle
    env, cluster, session = make_session(seed=102)
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=100)
          .on_failure(lambda i: None))
    planet_tx = tx.execute()
    # handle exists immediately after execute, so attaching works
    assert tracer.attach(planet_tx) is not None
