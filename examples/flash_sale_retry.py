#!/usr/bin/env python
"""Flash sale: admission control plus developer-side retries.

§4.2 of the paper: PLANET never retries rejected transactions itself,
but the transaction summary gives the developer everything needed to
retry with exponential backoff.  This example floods one item with
buyers under a Dynamic(90) policy, then shows a single determined
buyer pushing their purchase through `execute_with_retries` while a
tracer prints the winning attempt's protocol timeline.

Run:  python examples/flash_sale_retry.py
"""

import random

from repro import (
    CommitLikelihoodModel,
    DynamicPolicy,
    OracleLatencySource,
    PlanetSession,
    Update,
    WriteOp,
    quick_cluster,
)
from repro.core.retry import BackoffPolicy, execute_with_retries
from repro.obs.txtrace import TransactionTracer

FLASH_ITEM = "item:flash"
CROWD_TPS = 40.0
WARMUP_MS = 25_000.0


def main() -> None:
    env, cluster = quick_cluster(seed=6)
    cluster.load({FLASH_ITEM: 100_000})

    matrix = OracleLatencySource(cluster.topology, cluster.streams,
                                 samples=1500).latency_matrix()
    model = CommitLikelihoodModel(
        matrix, cluster.mastership.leader_distribution())
    model.precompute()

    # The crowd: everyone hammers the flash item through Dynamic(90).
    crowd = [
        PlanetSession(cluster, f"crowd-{dc}", dc, model=model,
                      admission=DynamicPolicy(90))
        for dc in range(5)
    ]
    rng = random.Random(1)

    def crowd_loop(env):
        i = 0
        while True:
            yield env.timeout(rng.expovariate(CROWD_TPS / 1000.0))
            session = crowd[i % len(crowd)]
            i += 1
            (session.transaction([WriteOp(FLASH_ITEM, Update.delta(-1))],
                                 timeout_ms=3_000)
             .on_failure(lambda info: None)).execute()

    env.process(crowd_loop(env))
    env.run(until=WARMUP_MS)

    crowd_txs = [t for s in crowd for t in s.transactions]
    rejected = sum(1 for t in crowd_txs if t.admitted is False)
    committed = sum(1 for t in crowd_txs if t.committed)
    print(f"crowd so far: {len(crowd_txs)} requests, {committed} sales, "
          f"{rejected} turned away by Dynamic(90)")

    # One determined buyer retries through the rejections.
    buyer = PlanetSession(cluster, "determined-buyer", 2, model=model,
                          admission=DynamicPolicy(90))
    retry = execute_with_retries(
        buyer, [WriteOp(FLASH_ITEM, Update.delta(-1))], timeout_ms=3_000,
        backoff=BackoffPolicy(initial_ms=200, multiplier=1.6,
                              max_backoff_ms=2_000, jitter=0.1),
        max_attempts=40)
    env.run(until=WARMUP_MS + 120_000)

    print(f"\nbuyer attempts: {len(retry.attempts)}")
    for i, attempt in enumerate(retry.attempts, start=1):
        likelihood = attempt.initial_likelihood
        print(f"  attempt {i}: state={attempt.state.value:9s} "
              f"initial P(commit)={likelihood:.3f}")
    if retry.committed:
        winning = retry.attempts[-1]
        print(f"\npurchase succeeded: decided "
              f"{winning.decided_ms - winning.start_ms:.0f} ms after the "
              "winning attempt started")
        tracer = TransactionTracer()
        # Re-run a fresh, traced purchase to show a live timeline.
        # (Note the quirk at the end: with only onFailure defined, the
        # stage block fires at the timeout even though the commit has
        # long been known — exactly Figure 3's semantics.)
        traced_tx = (buyer.transaction(
                         [WriteOp(FLASH_ITEM, Update.delta(-1))],
                         timeout_ms=3_000)
                     .on_failure(lambda info: None))
        traced = traced_tx.execute()
        trace = tracer.attach(traced)
        env.run(until=env.now + 10_000)
        print(trace.render())
    else:
        print("\nthe buyer gave up after exhausting the retry budget")


if __name__ == "__main__":
    main()
