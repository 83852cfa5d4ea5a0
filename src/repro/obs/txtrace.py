"""Per-transaction event tracing (client-side timeline view).

A :class:`TransactionTracer` attaches to a :class:`PlanetTransaction`
(or a raw :class:`TransactionHandle`) and records a timeline of the
stages it passes through — reads, proposal, acceptance, each learned
option, the decision, stage-block firings — with virtual timestamps.

This is the *single-node* timeline complement to the cross-node span
trees of :mod:`repro.obs.spans`: handy for examples and debugging one
transaction interactively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.transaction import PlanetTransaction
from repro.mdcc.coordinator import TransactionHandle


@dataclass(frozen=True)
class TraceEvent:
    """One timeline entry: what happened, when, with which detail."""

    at_ms: float
    stage: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"+{self.at_ms:9.2f} ms  {self.stage}{suffix}"


@dataclass
class TransactionTrace:
    """The collected timeline of one transaction."""

    txid: str
    start_ms: float
    events: List[TraceEvent] = field(default_factory=list)

    def add(self, now_ms: float, stage: str, detail: str = "") -> None:
        self.events.append(
            TraceEvent(at_ms=now_ms - self.start_ms, stage=stage,
                       detail=detail))

    def stages(self) -> List[str]:
        return [event.stage for event in self.events]

    def duration_of(self, from_stage: str, to_stage: str) -> Optional[float]:
        """Elapsed ms between the first occurrences of two stages."""
        first = {event.stage: event.at_ms for event in reversed(self.events)}
        if from_stage not in first or to_stage not in first:
            return None
        return first[to_stage] - first[from_stage]

    def render(self) -> str:
        lines = [f"transaction {self.txid}"]
        lines.extend(f"  {event}" for event in self.events)
        return "\n".join(lines)


class TransactionTracer:
    """Collects traces for the transactions it is attached to."""

    def __init__(self):
        self.traces: List[TransactionTrace] = []

    def attach_handle(self, handle: TransactionHandle) -> TransactionTrace:
        """Trace a raw MDCC transaction handle."""
        trace = TransactionTrace(txid=handle.txid,
                                 start_ms=handle.start_ms)
        self.traces.append(trace)
        env = handle.env

        def hook(stage: str, h: TransactionHandle) -> None:
            detail = ""
            if stage == "learned":
                decisions = ",".join(
                    f"{key}={decision.value}"
                    for key, decision in sorted(h.learned.items()))
                detail = decisions
            elif stage == "decided" and h.result is not None:
                detail = "commit" if h.result.committed else "abort"
            trace.add(env.now, stage, detail)

        handle.progress_hooks.append(hook)
        return trace

    def attach(self, transaction: PlanetTransaction) -> TransactionTrace:
        """Trace a PLANET transaction, including stage-block firings."""
        if transaction.handle is None:
            raise ValueError("transaction has not started yet")
        trace = self.attach_handle(transaction.handle)
        trace.txid = transaction.txid
        env = transaction.env

        original_fire = transaction._fire_stage

        def wrapped_fire(stage, callback):
            trace.add(env.now, f"stage:{stage}",
                      f"state={transaction.state.value}")
            original_fire(stage, callback)

        transaction._fire_stage = wrapped_fire

        def final_hook(event):
            if event.ok:
                info = event.value
                trace.add(env.now, "finally", f"state={info.state.value}")

        transaction.final_event.callbacks.append(final_hook)
        return trace
