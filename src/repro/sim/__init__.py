"""Deterministic discrete-event simulation kernel.

This package provides the virtual-time substrate on which the whole
reproduction runs: a heap-driven event loop (:class:`Environment`),
generator-based cooperating :class:`Process` objects, one-shot
:class:`Event` primitives, and seeded random-number streams
(:class:`RandomStreams`).

All simulated time is measured in **milliseconds** (floats).  Using
virtual time instead of wall-clock sleeps makes the latency-sensitive
PLANET experiments both fast and exactly reproducible.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    TimerWheel,
    WheelTimer,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
    "TimerWheel",
    "WheelTimer",
]
